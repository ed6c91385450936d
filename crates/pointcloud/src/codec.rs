//! Compact wire format for exchanged point clouds.
//!
//! §II-C of the paper: "By only extracting positional coordinates and
//! reflection value, point clouds can be compressed into 200 KB per
//! scan." This codec realizes that budget: each point is quantized to
//! centimetre-resolution `i16` coordinates plus one reflectance byte —
//! [`WIRE_BYTES_PER_POINT`] = 7 bytes/point, so a ~30 k-point VLP-16 scan
//! encodes to ~210 KB (≈ 1.7 Mbit, matching the ≈1.8 Mbit/frame of
//! Figure 12).
//!
//! # Wire-format versions
//!
//! Both versions share the 10-byte header (`CPPC` magic, version byte,
//! flags byte, `u32` point count) and the 7-byte point layout, so every
//! decoder in this module reads either version and the fixed point
//! stride keeps prefix salvage ([`truncate_frame`]) working on
//! truncated frames of any version.
//!
//! * **v1** — the original format; the flags byte is reserved (zero).
//! * **v2** — the bandwidth-governor format (§IV-G: "Background data
//!   like buildings, trees are subtract\[ed\]"). The flags byte becomes
//!   meaningful: bit 0 marks a **delta frame** (only points novel
//!   relative to the sender's previous keyframe), bit 1 marks a frame
//!   whose static background was removed against a
//!   [`StaticMap`](crate::roi::StaticMap). [`DeltaEncoder`] /
//!   [`DeltaDecoder`] implement the keyframe-cadence state machine on
//!   top of [`encode_cloud_v2`].
//! * **v3** — the feature-exchange format (F-Cooper style): instead of
//!   points, the payload carries a quantized sparse BEV **feature map**
//!   ([`FeatureFrame`]) — one `i16` cell coordinate pair plus one signed
//!   byte per channel per active cell, dequantized through a per-frame
//!   `f32` scale carried in an extended header. The count field holds
//!   the cell count and the stride is fixed per frame, so prefix salvage
//!   ([`truncate_frame`]) keeps whole cells exactly as it keeps whole
//!   points. Point decoders reject v3
//!   frames (and the feature decoder rejects v1/v2 frames) with
//!   [`CodecError::PayloadKindMismatch`] — never by misreading bytes.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cooper_geometry::Vec3;

use crate::{Point, PointCloud, VoxelCoord, VoxelGridConfig};

/// Bytes used per encoded point: three `i16` centimetre coordinates plus
/// one reflectance byte.
pub const WIRE_BYTES_PER_POINT: usize = 7;

/// Bytes used by the frame header (magic, version, reserved, point count).
pub const WIRE_HEADER_BYTES: usize = 10;

const MAGIC: &[u8; 4] = b"CPPC";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;
const VERSION_V3: u8 = 3;
/// Flags-byte bit marking a delta frame (v2 only).
const FLAG_DELTA: u8 = 0b0000_0001;
/// Flags-byte bit marking a background-subtracted frame (v2 only).
const FLAG_BACKGROUND_SUBTRACTED: u8 = 0b0000_0010;
/// Flags-byte bit marking a frame that carries a CRC-32 trailer after
/// its payload (valid in every version). Decoders that predate the bit
/// read the declared count and ignore trailing bytes, so flagged frames
/// still decode on legacy receivers — the trailer is purely additive.
const FLAG_CRC32: u8 = 0b0000_0100;

/// Bytes of the CRC-32 trailer a `FLAG_CRC32`-flagged frame appends
/// after its declared payload.
pub const CRC_TRAILER_BYTES: usize = 4;

/// CRC-32/ISO-HDLC (the IEEE 802.3 polynomial, reflected): the trailer
/// checksum of integrity-flagged frames. Table-driven and hand-rolled —
/// the build environment vendors no checksum crate.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Computes the CRC-32 (ISO-HDLC / IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}
/// Quantization step: 1 cm, giving a ±327.67 m representable range —
/// beyond any LiDAR's reach.
const SCALE: f64 = 100.0;

/// Quantizes one coordinate to the wire's `i16` centimetre grid, or
/// `None` when the *rounded* value falls outside the representable
/// range. Validating the quantized value (rather than the raw one)
/// admits boundary coordinates like 327.672 m (rounds to `i16::MAX`)
/// and −327.68 m (exactly `i16::MIN`) that a raw `|x| > 327.67` check
/// would reject asymmetrically.
fn quantize_coord(v: f64) -> Option<i16> {
    let q = (v * SCALE).round();
    if q >= f64::from(i16::MIN) && q <= f64::from(i16::MAX) {
        Some(q as i16)
    } else {
        None
    }
}

/// Quantizes reflectance to one byte, clamping out-of-range and
/// non-finite values explicitly instead of relying on the silent
/// saturating `as` cast (which would also map NaN to 0 — here that
/// mapping is a documented decision, not an accident).
fn quantize_reflectance(r: f32) -> u8 {
    if r.is_finite() {
        (r.clamp(0.0, 1.0) * 255.0).round() as u8
    } else {
        0
    }
}

/// Errors produced while encoding or decoding wire frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A coordinate exceeded the representable ±327.67 m range.
    CoordinateOutOfRange {
        /// Index of the offending point in the cloud.
        index: usize,
    },
    /// The buffer ended before the declared payload was complete.
    Truncated {
        /// Bytes expected.
        expected: usize,
        /// Bytes available.
        actual: usize,
    },
    /// The frame did not start with the `CPPC` magic.
    BadMagic,
    /// The frame version is not supported by this decoder.
    UnsupportedVersion(u8),
    /// A v3 feature frame was offered to a point decoder, or a v1/v2
    /// point frame was offered to the feature decoder. The payload is
    /// well-formed — it just carries the other content type; route it
    /// through the matching decoder instead.
    PayloadKindMismatch {
        /// Version byte of the frame that was offered.
        version: u8,
    },
    /// The frame carries a CRC-32 trailer and it does not match the
    /// frame content: bytes were corrupted in flight.
    ChecksumMismatch {
        /// The CRC the trailer declared.
        expected: u32,
        /// The CRC the received bytes actually hash to.
        actual: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::CoordinateOutOfRange { index } => {
                write!(f, "point {index} exceeds the representable ±327.67 m range")
            }
            CodecError::Truncated { expected, actual } => {
                write!(
                    f,
                    "frame truncated: expected {expected} bytes, got {actual}"
                )
            }
            CodecError::BadMagic => write!(f, "frame does not start with CPPC magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            CodecError::PayloadKindMismatch { version } => {
                write!(
                    f,
                    "version {version} frame offered to the wrong decoder (points vs features)"
                )
            }
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "CRC-32 mismatch: trailer declares {expected:#010x}, content hashes to {actual:#010x}"
                )
            }
        }
    }
}

impl Error for CodecError {}

/// What content a wire frame carries: a full point snapshot, the points
/// novel since the sender's previous keyframe, or (v3) a quantized BEV
/// feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A complete, self-contained frame. All v1 frames are keyframes.
    Keyframe,
    /// Only points in voxels unoccupied by the previous keyframe.
    /// Decodable on its own (the points it carries are real points);
    /// [`DeltaDecoder`] additionally merges the cached keyframe back in.
    Delta,
    /// A v3 frame carrying a [`FeatureFrame`] instead of points:
    /// sender-side detector features quantized for the wire,
    /// self-contained (no delta state) and decodable only through
    /// [`decode_features`].
    Features,
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FrameKind::Keyframe => "keyframe",
            FrameKind::Delta => "delta",
            FrameKind::Features => "features",
        })
    }
}

/// Parsed header of a wire frame — what a receiver can learn without
/// decoding any point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Wire-format version (1, 2 or 3).
    pub version: u8,
    /// Keyframe or delta ([`FrameKind::Keyframe`] for every v1 frame);
    /// [`FrameKind::Features`] for every v3 frame.
    pub kind: FrameKind,
    /// `true` when the sender removed known-static background before
    /// encoding (v2 flag bit 1).
    pub background_subtracted: bool,
    /// `true` when the frame appends a CRC-32 trailer after its payload
    /// (flag bit 2, any version). Decoders verify it; legacy receivers
    /// ignore the trailing bytes.
    pub has_crc: bool,
    /// Points the full frame declares — active BEV cells for a v3
    /// feature frame.
    pub point_count: usize,
}

/// Parses the 10-byte frame header of either wire-format version.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`], [`CodecError::BadMagic`] or
/// [`CodecError::UnsupportedVersion`] for malformed input.
pub fn frame_info(mut bytes: &[u8]) -> Result<FrameInfo, CodecError> {
    if bytes.len() < WIRE_HEADER_BYTES {
        return Err(CodecError::Truncated {
            expected: WIRE_HEADER_BYTES,
            actual: bytes.len(),
        });
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = bytes.get_u8();
    if version != VERSION_V1 && version != VERSION_V2 && version != VERSION_V3 {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let flags = bytes.get_u8();
    let count = bytes.get_u32() as usize;
    let (kind, background_subtracted) = match version {
        VERSION_V2 => (
            if flags & FLAG_DELTA != 0 {
                FrameKind::Delta
            } else {
                FrameKind::Keyframe
            },
            flags & FLAG_BACKGROUND_SUBTRACTED != 0,
        ),
        VERSION_V3 => (FrameKind::Features, false),
        _ => (FrameKind::Keyframe, false),
    };
    Ok(FrameInfo {
        version,
        kind,
        background_subtracted,
        has_crc: flags & FLAG_CRC32 != 0,
        point_count: count,
    })
}

/// Bytes the frame's header declares for header + payload — the region
/// a CRC trailer covers and the offset at which it sits.
///
/// # Errors
///
/// For a v3 frame, [`CodecError::Truncated`] when the extended
/// subheader (which carries the channel count the stride depends on) is
/// incomplete.
fn declared_body_len(bytes: &[u8], info: &FrameInfo) -> Result<usize, CodecError> {
    match info.kind {
        FrameKind::Features => {
            let (channels, _) = feature_subheader(bytes)?;
            Ok(WIRE_FEATURE_HEADER_BYTES + info.point_count * feature_cell_stride(channels))
        }
        _ => Ok(WIRE_HEADER_BYTES + info.point_count * WIRE_BYTES_PER_POINT),
    }
}

/// Verifies the CRC-32 trailer of an integrity-flagged frame; a no-op
/// for frames without the flag.
///
/// # Errors
///
/// [`CodecError::Truncated`] when the flagged trailer did not fully
/// arrive, [`CodecError::ChecksumMismatch`] when it disagrees with the
/// frame content.
fn verify_crc(bytes: &[u8], info: &FrameInfo) -> Result<(), CodecError> {
    if !info.has_crc {
        return Ok(());
    }
    let body = declared_body_len(bytes, info)?;
    let framed = body + CRC_TRAILER_BYTES;
    if bytes.len() < framed {
        return Err(CodecError::Truncated {
            expected: framed,
            actual: bytes.len(),
        });
    }
    let expected = u32::from_be_bytes([
        bytes[body],
        bytes[body + 1],
        bytes[body + 2],
        bytes[body + 3],
    ]);
    let actual = crc32(&bytes[..body]);
    if actual != expected {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// Verifies an encoded frame's CRC-32 integrity trailer without
/// decoding the payload. Returns `Ok(true)` when the frame carries a
/// trailer that matches its content, `Ok(false)` when the frame was
/// never CRC-framed (nothing to verify).
///
/// # Errors
///
/// The header errors of [`frame_info`], [`CodecError::Truncated`] when
/// the declared trailer is missing, and
/// [`CodecError::ChecksumMismatch`] when the content does not hash to
/// the trailer's value.
pub fn verify_frame_crc(bytes: &[u8]) -> Result<bool, CodecError> {
    let info = frame_info(bytes)?;
    verify_crc(bytes, &info)?;
    Ok(info.has_crc)
}

/// Re-frames an encoded wire frame (any version) with the CRC-32
/// integrity trailer: sets `FLAG_CRC32` in the flags byte, hashes the
/// declared header + payload and appends the 4-byte big-endian trailer.
/// Trailing bytes beyond the declared payload are dropped.
///
/// The operation is idempotent — re-framing an already-flagged frame
/// recomputes the same trailer.
///
/// # Errors
///
/// The header errors of [`frame_info`], and [`CodecError::Truncated`]
/// when `frame` is shorter than its declared payload.
pub fn append_crc(frame: &[u8]) -> Result<Bytes, CodecError> {
    let info = frame_info(frame)?;
    let body = declared_body_len(frame, &info)?;
    if frame.len() < body {
        return Err(CodecError::Truncated {
            expected: body,
            actual: frame.len(),
        });
    }
    let mut out = Vec::with_capacity(body + CRC_TRAILER_BYTES);
    out.extend_from_slice(&frame[..body]);
    out[5] |= FLAG_CRC32;
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    Ok(Bytes::from(out))
}

fn encode_with_header(cloud: &PointCloud, version: u8, flags: u8) -> Result<Bytes, CodecError> {
    let mut buf = BytesMut::with_capacity(WIRE_HEADER_BYTES + cloud.len() * WIRE_BYTES_PER_POINT);
    buf.put_slice(MAGIC);
    buf.put_u8(version);
    buf.put_u8(flags);
    buf.put_u32(cloud.len() as u32);
    for (index, point) in cloud.iter().enumerate() {
        let p = point.position;
        let (Some(x), Some(y), Some(z)) = (
            quantize_coord(p.x),
            quantize_coord(p.y),
            quantize_coord(p.z),
        ) else {
            return Err(CodecError::CoordinateOutOfRange { index });
        };
        buf.put_i16(x);
        buf.put_i16(y);
        buf.put_i16(z);
        buf.put_u8(quantize_reflectance(point.reflectance));
    }
    Ok(buf.freeze())
}

/// Encodes a cloud into the version-1 wire format.
///
/// # Errors
///
/// Returns [`CodecError::CoordinateOutOfRange`] when any coordinate
/// quantizes outside the representable `i16` centimetre range
/// (±327.67 m, with round-to-nearest at the boundary). Callers
/// exchanging sensor-frame clouds never hit this; clouds already moved
/// into a distant world frame must be re-centered first.
///
/// # Examples
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::{decode_cloud, encode_cloud, Point, PointCloud};
///
/// # fn main() -> Result<(), cooper_pointcloud::CodecError> {
/// let mut cloud = PointCloud::new();
/// cloud.push(Point::new(Vec3::new(12.34, -5.67, 0.89), 0.5));
/// let bytes = encode_cloud(&cloud)?;
/// let decoded = decode_cloud(&bytes)?;
/// assert_eq!(decoded.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn encode_cloud(cloud: &PointCloud) -> Result<Bytes, CodecError> {
    encode_with_header(cloud, VERSION_V1, 0)
}

/// Encodes a cloud into the version-2 wire format, stamping the flags
/// byte with the frame kind and whether background was subtracted.
///
/// The point payload is identical to v1; only the header differs, so v2
/// frames flow through fragmentation, ARQ and prefix salvage unchanged.
///
/// # Errors
///
/// Same as [`encode_cloud`].
///
/// # Panics
///
/// Panics when `kind` is [`FrameKind::Features`]: feature frames carry
/// no points and are encoded with [`encode_features`].
pub fn encode_cloud_v2(
    cloud: &PointCloud,
    kind: FrameKind,
    background_subtracted: bool,
) -> Result<Bytes, CodecError> {
    assert!(
        kind != FrameKind::Features,
        "feature frames are encoded with encode_features, not encode_cloud_v2"
    );
    let mut flags = 0u8;
    if kind == FrameKind::Delta {
        flags |= FLAG_DELTA;
    }
    if background_subtracted {
        flags |= FLAG_BACKGROUND_SUBTRACTED;
    }
    encode_with_header(cloud, VERSION_V2, flags)
}

/// Decodes a wire frame (either version) back into a point cloud.
///
/// Positions are recovered to within 5 mm (half the quantization step),
/// reflectance to within 1/510. A v2 delta frame decodes to the points
/// it carries; use [`DeltaDecoder`] to merge the reference keyframe
/// back in, or [`frame_info`] to learn the kind first.
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`] or
/// [`CodecError::Truncated`] for malformed input, and
/// [`CodecError::PayloadKindMismatch`] for a (well-formed) v3 feature
/// frame — use [`decode_features`] for those.
pub fn decode_cloud(bytes: &[u8]) -> Result<PointCloud, CodecError> {
    let info = frame_info(bytes)?;
    if info.kind == FrameKind::Features {
        return Err(CodecError::PayloadKindMismatch {
            version: info.version,
        });
    }
    let count = info.point_count;
    let body = WIRE_HEADER_BYTES + count * WIRE_BYTES_PER_POINT;
    if bytes.len() < body {
        return Err(CodecError::Truncated {
            expected: body,
            actual: bytes.len(),
        });
    }
    verify_crc(bytes, &info)?;
    Ok(decode_points(&bytes[WIRE_HEADER_BYTES..body], count))
}

/// Decodes `count` fixed-stride points from a payload slice of exactly
/// `count * WIRE_BYTES_PER_POINT` bytes. Working on whole 7-byte chunks
/// instead of a byte cursor lets the bounds check happen once per point
/// — this is the fusion hot path, run for every received packet.
fn decode_points(payload: &[u8], count: usize) -> PointCloud {
    debug_assert_eq!(payload.len(), count * WIRE_BYTES_PER_POINT);
    let mut cloud = PointCloud::with_capacity(count);
    for chunk in payload.chunks_exact(WIRE_BYTES_PER_POINT) {
        let x = f64::from(i16::from_be_bytes([chunk[0], chunk[1]])) / SCALE;
        let y = f64::from(i16::from_be_bytes([chunk[2], chunk[3]])) / SCALE;
        let z = f64::from(i16::from_be_bytes([chunk[4], chunk[5]])) / SCALE;
        let reflectance = f32::from(chunk[6]) / 255.0;
        cloud.push(Point::new(Vec3::new(x, y, z), reflectance));
    }
    cloud
}

/// Size in bytes of the wire frame for a cloud of `n` points.
pub fn encoded_size(n: usize) -> usize {
    WIRE_HEADER_BYTES + n * WIRE_BYTES_PER_POINT
}

/// Cuts a wire frame (any version) whose tail never arrived back to a
/// self-consistent frame — the salvage path for partial deliveries,
/// where only a leading portion of the frame arrived before the
/// transport deadline expired.
///
/// Every point (v1/v2) and every feature cell (v3) occupies a
/// fixed-stride slot, so any prefix that covers the header holds some
/// whole ones; a trailing partial slot is dropped. The cut frame is
/// that prefix with its count rewritten to the whole slots kept and
/// its flags byte cleared of the CRC bit (and of any bit the version
/// does not define). No value is decoded or re-quantized: a v3 prefix
/// keeps the sender's scale, so every kept feature decodes to the
/// value the full frame carried. Returns the cut frame and the count
/// the full frame declared, so the caller can report the salvaged
/// fraction.
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`]
/// or — only when even the header (15 bytes for a v3 frame) is
/// incomplete — [`CodecError::Truncated`]. When an integrity-flagged
/// frame arrived *complete* (payload and trailer), its CRC is verified
/// first and a mismatch returns [`CodecError::ChecksumMismatch`]; a
/// genuine prefix carries no verifiable trailer, so its whole slots are
/// salvaged unchecked — per-fragment integrity is the transport's job.
pub fn truncate_frame(bytes: &[u8]) -> Result<(Bytes, usize), CodecError> {
    let info = frame_info(bytes)?;
    let (header, stride) = match info.kind {
        FrameKind::Features => (
            WIRE_FEATURE_HEADER_BYTES,
            feature_cell_stride(feature_subheader(bytes)?.0),
        ),
        _ => (WIRE_HEADER_BYTES, WIRE_BYTES_PER_POINT),
    };
    let declared = info.point_count;
    if info.has_crc && bytes.len() >= header + declared * stride + CRC_TRAILER_BYTES {
        verify_crc(bytes, &info)?;
    }
    let kept = ((bytes.len() - header) / stride).min(declared);
    let mut frame = bytes[..header + kept * stride].to_vec();
    frame[5] = match info.version {
        VERSION_V2 => frame[5] & (FLAG_DELTA | FLAG_BACKGROUND_SUBTRACTED),
        _ => 0,
    };
    frame[6..WIRE_HEADER_BYTES].copy_from_slice(&(kept as u32).to_be_bytes());
    Ok((Bytes::from(frame), declared))
}

/// Extra header bytes of a v3 frame beyond the common 10-byte header:
/// a `u8` channel count and the `f32` dequantization scale.
pub const WIRE_FEATURE_SUBHEADER_BYTES: usize = 5;

/// Total header bytes of a v3 feature frame.
pub const WIRE_FEATURE_HEADER_BYTES: usize = WIRE_HEADER_BYTES + WIRE_FEATURE_SUBHEADER_BYTES;

/// Magnitude of the largest quantized feature step: values are mapped
/// to signed bytes in `[-127, 127]` against the per-frame scale.
const FEATURE_Q_MAX: f32 = 127.0;

/// Wire bytes of one encoded feature cell: two `i16` BEV cell indices
/// plus one signed byte per channel.
pub fn feature_cell_stride(channels: usize) -> usize {
    4 + channels
}

/// Size in bytes of the v3 wire frame for `cells` active BEV cells of
/// `channels` features each.
pub fn encoded_feature_size(cells: usize, channels: usize) -> usize {
    WIRE_FEATURE_HEADER_BYTES + cells * feature_cell_stride(channels)
}

/// A sparse BEV feature map in wire-interchange form: active `(x, y)`
/// grid cells in ascending order, each carrying `channels` `f32`
/// features. This is the payload of a v3 frame — the detector-side
/// `BevMap` converts to and from it, and the codec quantizes it for the
/// wire ([`encode_features`] / [`decode_features`]).
///
/// The type lives here (not in the detector crate) so the codec stays
/// free of detector dependencies; it is deliberately a plain cells +
/// flat-features container with the same layout contract as the
/// detector's BEV map (cells strictly ascending, `channels` values per
/// cell).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureFrame {
    channels: usize,
    /// Active cells in strictly ascending `(x, y)` order.
    cells: Vec<(i32, i32)>,
    /// Flat feature storage, `channels` values per cell.
    features: Vec<f32>,
}

impl FeatureFrame {
    /// Builds a frame from its parts.
    ///
    /// # Panics
    ///
    /// Panics when `features.len() != cells.len() * channels` or the
    /// cells are not strictly ascending — both are programmer errors
    /// (wire-side validation happens in [`decode_features`]).
    pub fn new(channels: usize, cells: Vec<(i32, i32)>, features: Vec<f32>) -> Self {
        assert_eq!(
            features.len(),
            cells.len() * channels,
            "feature storage must hold `channels` values per cell"
        );
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "feature cells must be strictly ascending"
        );
        FeatureFrame {
            channels,
            cells,
            features,
        }
    }

    /// Features per cell.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of active cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cell is active.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The active cells in ascending `(x, y)` order.
    pub fn cells(&self) -> &[(i32, i32)] {
        &self.cells
    }

    /// The flat feature buffer (`channels` values per cell).
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// The feature slice of the cell at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn feature_at(&self, index: usize) -> &[f32] {
        &self.features[index * self.channels..(index + 1) * self.channels]
    }

    /// The symmetric per-frame quantization scale [`encode_features`]
    /// would use: the largest finite absolute feature value (zero for an
    /// all-zero or empty frame). The worst-case per-value round-trip
    /// error is `scale / (2 · 127)`.
    pub fn quantization_scale(&self) -> f32 {
        self.features
            .iter()
            .filter(|v| v.is_finite())
            .fold(0.0f32, |acc, v| acc.max(v.abs()))
    }
}

/// Encodes a sparse BEV feature map into the version-3 wire format.
///
/// Each feature value is quantized to a signed byte against the frame's
/// symmetric scale (`q = round(v / scale · 127)`), so the worst-case
/// reconstruction error is `scale / 254` per value. Non-finite values
/// encode as zero — the same defensive mapping the point codec applies
/// to reflectance. An all-zero frame stores a zero scale and decodes to
/// exact zeros.
///
/// # Errors
///
/// Returns [`CodecError::CoordinateOutOfRange`] when a cell index
/// exceeds the `i16` range (±32 767 cells — far beyond any detector
/// grid) and [`CodecError::UnsupportedVersion`] when `channels`
/// exceeds 255.
pub fn encode_features(frame: &FeatureFrame) -> Result<Bytes, CodecError> {
    if frame.channels > u8::MAX as usize {
        return Err(CodecError::UnsupportedVersion(VERSION_V3));
    }
    let scale = frame.quantization_scale();
    let mut buf = BytesMut::with_capacity(encoded_feature_size(frame.len(), frame.channels));
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION_V3);
    buf.put_u8(0);
    buf.put_u32(frame.len() as u32);
    buf.put_u8(frame.channels as u8);
    buf.put_f32(scale);
    for (index, &(x, y)) in frame.cells.iter().enumerate() {
        let (Ok(cx), Ok(cy)) = (i16::try_from(x), i16::try_from(y)) else {
            return Err(CodecError::CoordinateOutOfRange { index });
        };
        buf.put_i16(cx);
        buf.put_i16(cy);
        for &v in &frame.features[index * frame.channels..(index + 1) * frame.channels] {
            let q: i8 = if v.is_finite() && scale > 0.0 {
                (v / scale * FEATURE_Q_MAX).round().clamp(-127.0, 127.0) as i8
            } else {
                0
            };
            buf.put_u8(q as u8);
        }
    }
    Ok(buf.freeze())
}

/// Parses the v3 extended subheader, returning `(channels, scale)`.
fn feature_subheader(bytes: &[u8]) -> Result<(usize, f32), CodecError> {
    if bytes.len() < WIRE_FEATURE_HEADER_BYTES {
        return Err(CodecError::Truncated {
            expected: WIRE_FEATURE_HEADER_BYTES,
            actual: bytes.len(),
        });
    }
    let mut sub = &bytes[WIRE_HEADER_BYTES..];
    let channels = sub.get_u8() as usize;
    let scale = sub.get_f32();
    let scale = if scale.is_finite() { scale.abs() } else { 0.0 };
    Ok((channels, scale))
}

/// Decodes `count` fixed-stride feature cells from a payload slice.
fn decode_feature_cells(payload: &[u8], count: usize, channels: usize, scale: f32) -> FeatureFrame {
    let stride = feature_cell_stride(channels);
    debug_assert_eq!(payload.len(), count * stride);
    let mut cells = Vec::with_capacity(count);
    let mut features = Vec::with_capacity(count * channels);
    for chunk in payload.chunks_exact(stride) {
        let x = i32::from(i16::from_be_bytes([chunk[0], chunk[1]]));
        let y = i32::from(i16::from_be_bytes([chunk[2], chunk[3]]));
        cells.push((x, y));
        for &q in &chunk[4..] {
            features.push(f32::from(q as i8) * scale / FEATURE_Q_MAX);
        }
    }
    FeatureFrame {
        channels,
        cells,
        features,
    }
}

/// Decodes a version-3 wire frame back into a sparse feature map.
///
/// Values are recovered to within `scale / 254` of the encoded input.
/// Cell order is preserved from the wire (ascending, as
/// [`encode_features`] wrote it).
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`]
/// or [`CodecError::Truncated`] for malformed input, and
/// [`CodecError::PayloadKindMismatch`] when offered a v1/v2 point frame.
pub fn decode_features(bytes: &[u8]) -> Result<FeatureFrame, CodecError> {
    let info = frame_info(bytes)?;
    if info.kind != FrameKind::Features {
        return Err(CodecError::PayloadKindMismatch {
            version: info.version,
        });
    }
    let (channels, scale) = feature_subheader(bytes)?;
    let count = info.point_count;
    let expected = count * feature_cell_stride(channels);
    let payload = &bytes[WIRE_FEATURE_HEADER_BYTES..];
    if payload.len() < expected {
        return Err(CodecError::Truncated {
            expected: WIRE_FEATURE_HEADER_BYTES + expected,
            actual: bytes.len(),
        });
    }
    verify_crc(bytes, &info)?;
    Ok(decode_feature_cells(
        &payload[..expected],
        count,
        channels,
        scale,
    ))
}

/// Sender-side state machine of the v2 delta mode: every
/// `keyframe_every`-th frame is a keyframe; the frames between carry
/// only points in voxels the previous keyframe left unoccupied.
///
/// Voxel occupancy (not per-point identity) keys the delta because
/// LiDAR returns never repeat exactly frame to frame; a voxel the
/// keyframe already covered contributes no new structure worth air
/// time. The grid used for keying is configurable and defaults to the
/// detector's own voxelization, so "novel" aligns with what detection
/// can actually use.
///
/// # Examples
///
/// The encoder keeps the cadence and the reference; the caller encodes
/// each frame with [`encode_cloud_v2`], as the fleet does when it prices
/// several ROIs of one frame.
///
/// ```
/// use cooper_geometry::Vec3;
/// use cooper_pointcloud::codec::{encode_cloud_v2, DeltaDecoder, DeltaEncoder, FrameKind};
/// use cooper_pointcloud::{Point, PointCloud, VoxelGridConfig};
///
/// # fn main() -> Result<(), cooper_pointcloud::CodecError> {
/// let mut enc = DeltaEncoder::new(VoxelGridConfig::voxelnet_car(), 3);
/// let mut dec = DeltaDecoder::new();
/// let scan: PointCloud = (0..10)
///     .map(|i| Point::new(Vec3::new(20.0, i as f64 - 5.0, 0.0), 0.5))
///     .collect();
/// // The first frame is a keyframe; its voxels become the reference.
/// assert!(enc.keyframe_due());
/// let key = encode_cloud_v2(&scan, FrameKind::Keyframe, false)?;
/// enc.note_keyframe(&scan);
/// // The next is a delta of the points in voxels the keyframe left empty.
/// assert!(!enc.keyframe_due());
/// let novel = enc.novel_points(&scan);
/// assert_eq!(novel.len(), 0); // nothing moved
/// let delta = encode_cloud_v2(&novel, FrameKind::Delta, false)?;
/// enc.note_delta();
/// // The decoder reconstructs the full view from keyframe + delta.
/// assert_eq!(dec.decode_next(&key)?.len(), 10);
/// assert_eq!(dec.decode_next(&delta)?.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeltaEncoder {
    grid: VoxelGridConfig,
    keyframe_every: u32,
    /// Frames encoded since the last keyframe; `None` until the first
    /// keyframe is sent.
    since_keyframe: Option<u32>,
    reference: HashSet<VoxelCoord>,
}

impl DeltaEncoder {
    /// Creates an encoder that emits a keyframe every `keyframe_every`
    /// frames (1 = every frame is a keyframe).
    ///
    /// # Panics
    ///
    /// Panics when `keyframe_every` is zero or `grid` is invalid.
    pub fn new(grid: VoxelGridConfig, keyframe_every: u32) -> Self {
        assert!(keyframe_every > 0, "keyframe cadence must be positive");
        if let Err(msg) = grid.validate() {
            panic!("invalid delta grid config: {msg}");
        }
        DeltaEncoder {
            grid,
            keyframe_every,
            since_keyframe: None,
            reference: HashSet::new(),
        }
    }

    /// `true` when the cadence calls for the next frame to be a
    /// keyframe (always true before the first keyframe).
    pub fn keyframe_due(&self) -> bool {
        match self.since_keyframe {
            None => true,
            Some(n) => n + 1 >= self.keyframe_every,
        }
    }

    /// The subset of `cloud` a delta frame would carry right now:
    /// points whose voxel the reference keyframe left unoccupied, plus
    /// points outside the grid (those can never be referenced).
    pub fn novel_points(&self, cloud: &PointCloud) -> PointCloud {
        if self.since_keyframe.is_none() {
            return cloud.clone();
        }
        cloud.filtered(|p| match self.grid.coord_of(p.position) {
            Some(coord) => !self.reference.contains(&coord),
            None => true,
        })
    }

    /// Records that a keyframe built from `cloud` was sent: the voxel
    /// occupancy of `cloud` becomes the delta reference.
    pub fn note_keyframe(&mut self, cloud: &PointCloud) {
        self.reference.clear();
        for p in cloud.iter() {
            if let Some(coord) = self.grid.coord_of(p.position) {
                self.reference.insert(coord);
            }
        }
        self.since_keyframe = Some(0);
    }

    /// Records that a delta frame was sent (advances the cadence).
    pub fn note_delta(&mut self) {
        if let Some(n) = self.since_keyframe.as_mut() {
            *n += 1;
        }
    }
}

/// Receiver-side counterpart of [`DeltaEncoder`]: caches the last
/// keyframe and merges it back into every delta frame, so the caller
/// always sees a full view.
///
/// The reconstruction is an approximation — voxels the keyframe covered
/// are replayed at their keyframe-time positions — which is exactly the
/// static-background assumption the delta mode encodes: content that
/// did not move since the keyframe is reproduced from it.
///
/// A delta frame arriving before any keyframe (the keyframe was lost,
/// or the receiver joined mid-stream) decodes to just its own points:
/// degraded, never an error.
#[derive(Debug, Clone, Default)]
pub struct DeltaDecoder {
    keyframe: Option<PointCloud>,
}

impl DeltaDecoder {
    /// Creates a decoder with no cached keyframe.
    pub fn new() -> Self {
        DeltaDecoder::default()
    }

    /// Decodes the next frame of a stream, reconstructing delta frames
    /// against the cached keyframe. v1 frames and v2 keyframes refresh
    /// the cache.
    ///
    /// # Errors
    ///
    /// Same as [`decode_cloud`].
    pub fn decode_next(&mut self, bytes: &[u8]) -> Result<PointCloud, CodecError> {
        let info = frame_info(bytes)?;
        let cloud = decode_cloud(bytes)?;
        match info.kind {
            FrameKind::Keyframe => {
                self.keyframe = Some(cloud.clone());
                Ok(cloud)
            }
            FrameKind::Delta => Ok(match &self.keyframe {
                Some(key) => key.merged(&cloud),
                None => cloud,
            }),
            // decode_cloud above already rejected feature frames.
            FrameKind::Features => Err(CodecError::PayloadKindMismatch {
                version: info.version,
            }),
        }
    }

    /// The cached keyframe, if any arrived yet.
    pub fn keyframe(&self) -> Option<&PointCloud> {
        self.keyframe.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::new(
                    Vec3::new(f * 0.37 - 30.0, f * -0.11 + 5.0, (f * 0.05) % 3.0),
                    (i % 256) as f32 / 255.0,
                )
            })
            .collect()
    }

    #[test]
    fn round_trip_within_quantization() {
        let cloud = sample_cloud(500);
        let bytes = encode_cloud(&cloud).unwrap();
        assert_eq!(bytes.len(), encoded_size(500));
        let decoded = decode_cloud(&bytes).unwrap();
        assert_eq!(decoded.len(), cloud.len());
        for (a, b) in cloud.iter().zip(decoded.iter()) {
            assert!((a.position - b.position).norm() < 0.01, "{} vs {}", a, b);
            assert!((a.reflectance - b.reflectance).abs() < 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn empty_cloud_round_trip() {
        let bytes = encode_cloud(&PointCloud::new()).unwrap();
        assert_eq!(bytes.len(), WIRE_HEADER_BYTES);
        assert!(decode_cloud(&bytes).unwrap().is_empty());
    }

    #[test]
    fn scan_fits_paper_budget() {
        // A ~30k-point VLP-16 scan must encode to roughly 200 KB (§II-C).
        let size = encoded_size(30_000);
        assert!(size < 250_000, "scan too large: {size}");
        assert!(size > 150_000, "scan suspiciously small: {size}");
    }

    #[test]
    fn out_of_range_coordinate_rejected() {
        let mut cloud = sample_cloud(3);
        cloud.push(Point::new(Vec3::new(400.0, 0.0, 0.0), 0.5));
        match encode_cloud(&cloud) {
            Err(CodecError::CoordinateOutOfRange { index }) => assert_eq!(index, 3),
            other => panic!("expected out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let err = decode_cloud(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn truncated_payload_rejected() {
        let cloud = sample_cloud(10);
        let bytes = encode_cloud(&cloud).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        match decode_cloud(cut) {
            Err(CodecError::Truncated { expected, actual }) => {
                assert_eq!(expected, bytes.len());
                assert_eq!(actual, cut.len());
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let cloud = sample_cloud(1);
        let mut bytes = encode_cloud(&cloud).unwrap().to_vec();
        bytes[0] = b'X';
        assert_eq!(decode_cloud(&bytes).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn wrong_version_rejected() {
        let cloud = sample_cloud(1);
        let mut bytes = encode_cloud(&cloud).unwrap().to_vec();
        bytes[4] = 99;
        assert_eq!(
            decode_cloud(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn errors_display_and_are_std_errors() {
        let errs: Vec<Box<dyn Error>> = vec![
            Box::new(CodecError::BadMagic),
            Box::new(CodecError::UnsupportedVersion(2)),
            Box::new(CodecError::Truncated {
                expected: 10,
                actual: 5,
            }),
            Box::new(CodecError::CoordinateOutOfRange { index: 7 }),
            Box::new(CodecError::PayloadKindMismatch { version: 3 }),
            Box::new(CodecError::ChecksumMismatch {
                expected: 0xDEAD_BEEF,
                actual: 0,
            }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn truncation_keeps_whole_points() {
        let cloud = sample_cloud(10);
        let bytes = encode_cloud(&cloud).unwrap();
        // Cut mid-point: 6 whole points plus 3 bytes of the 7th.
        let cut = &bytes[..WIRE_HEADER_BYTES + 6 * WIRE_BYTES_PER_POINT + 3];
        let (frame, declared) = truncate_frame(cut).unwrap();
        assert_eq!(declared, 10);
        assert_eq!(frame_info(&frame).unwrap().point_count, 6);
        assert_eq!(
            frame[WIRE_HEADER_BYTES..],
            cut[WIRE_HEADER_BYTES..frame.len()]
        );
        let prefix = decode_cloud(&frame).unwrap();
        assert_eq!(prefix.len(), 6);
        for (a, b) in cloud.iter().take(6).zip(prefix.iter()) {
            assert!((a.position - b.position).norm() < 0.01);
        }
    }

    #[test]
    fn truncation_of_full_frame_is_lossless() {
        let bytes = encode_cloud(&sample_cloud(5)).unwrap();
        let (frame, declared) = truncate_frame(&bytes).unwrap();
        assert_eq!((frame, declared), (bytes, 5));
    }

    #[test]
    fn truncation_keeps_only_the_flags_the_version_defines() {
        let cloud = sample_cloud(4);
        let mut v1 = encode_cloud(&cloud).unwrap().to_vec();
        v1[5] = 0xFF;
        let mut v2 = encode_cloud_v2(&cloud, FrameKind::Delta, true)
            .unwrap()
            .to_vec();
        v2[5] |= 0xF0;
        let mut v3 = encode_features(&sample_features(4, 2, 1)).unwrap().to_vec();
        v3[5] = 0xFF;
        for (frame, flags) in [
            (v1, 0),
            (v2, FLAG_DELTA | FLAG_BACKGROUND_SUBTRACTED),
            (v3, 0),
        ] {
            // Cut short of any trailer the CRC bit would announce.
            let cut = &frame[..frame.len() - 1];
            assert_eq!(truncate_frame(cut).unwrap().0[5], flags);
        }
    }

    #[test]
    fn truncation_still_checks_header() {
        assert!(matches!(
            truncate_frame(&[0u8; 4]).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        let mut bytes = encode_cloud(&sample_cloud(2)).unwrap().to_vec();
        bytes[0] = b'X';
        assert_eq!(truncate_frame(&bytes).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn trailing_bytes_ignored() {
        // Frames may arrive padded (e.g. out of a fixed-size transport
        // packet); the declared count governs.
        let cloud = sample_cloud(4);
        let mut bytes = encode_cloud(&cloud).unwrap().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_cloud(&bytes).unwrap().len(), 4);
    }

    #[test]
    fn boundary_coordinates_encode() {
        // 327.672 rounds to 32767 (i16::MAX) and −327.68 is exactly
        // i16::MIN; both must encode. The old raw-value check
        // (|x| > 327.67) rejected each asymmetrically.
        let cloud: PointCloud = [327.672, 327.67, -327.68, -327.675]
            .iter()
            .map(|&x| Point::new(Vec3::new(x, 0.0, 0.0), 0.5))
            .collect();
        let decoded = decode_cloud(&encode_cloud(&cloud).unwrap()).unwrap();
        assert_eq!(decoded.as_slice()[0].position.x, 327.67);
        assert_eq!(decoded.as_slice()[2].position.x, -327.68);
        // Just past the rounding boundary stays rejected.
        let over: PointCloud = [327.676, -327.686]
            .iter()
            .map(|&x| Point::new(Vec3::new(0.0, x, 0.0), 0.5))
            .collect();
        assert!(matches!(
            encode_cloud(&over),
            Err(CodecError::CoordinateOutOfRange { index: 0 })
        ));
    }

    #[test]
    fn reflectance_clamped_explicitly() {
        let cloud: PointCloud = [2.5f32, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .iter()
            .map(|&r| Point::new(Vec3::new(1.0, 2.0, 0.0), r))
            .collect();
        let decoded = decode_cloud(&encode_cloud(&cloud).unwrap()).unwrap();
        let r: Vec<f32> = decoded.iter().map(|p| p.reflectance).collect();
        assert_eq!(r[0], 1.0); // clamped high
        assert_eq!(r[1], 0.0); // clamped low
        assert_eq!(r[2], 0.0); // NaN → 0, by decision not by cast accident
        assert_eq!(r[3], 1.0);
        assert_eq!(r[4], 0.0);
    }

    #[test]
    fn v2_round_trip_and_frame_info() {
        let cloud = sample_cloud(20);
        let bytes = encode_cloud_v2(&cloud, FrameKind::Delta, true).unwrap();
        let info = frame_info(&bytes).unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.kind, FrameKind::Delta);
        assert!(info.background_subtracted);
        assert_eq!(info.point_count, 20);
        assert_eq!(decode_cloud(&bytes).unwrap().len(), 20);

        let key = encode_cloud_v2(&cloud, FrameKind::Keyframe, false).unwrap();
        let info = frame_info(&key).unwrap();
        assert_eq!(info.kind, FrameKind::Keyframe);
        assert!(!info.background_subtracted);
    }

    #[test]
    fn v1_frames_report_keyframe_info() {
        let bytes = encode_cloud(&sample_cloud(3)).unwrap();
        let info = frame_info(&bytes).unwrap();
        assert_eq!(info.version, 1);
        assert_eq!(info.kind, FrameKind::Keyframe);
        assert!(!info.background_subtracted);
    }

    #[test]
    fn v2_truncation_keeps_the_frame_kind() {
        let cloud = sample_cloud(12);
        let bytes = encode_cloud_v2(&cloud, FrameKind::Delta, true).unwrap();
        let cut = &bytes[..WIRE_HEADER_BYTES + 7 * WIRE_BYTES_PER_POINT + 2];
        let (frame, declared) = truncate_frame(cut).unwrap();
        assert_eq!(declared, 12);
        // The salvaged prefix still carries its v2 header semantics.
        let info = frame_info(&frame).unwrap();
        assert_eq!((info.version, info.kind), (2, FrameKind::Delta));
        assert!(info.background_subtracted);
        assert_eq!(decode_cloud(&frame).unwrap().len(), 7);
    }

    #[test]
    fn version_three_is_a_feature_frame_to_point_decoders() {
        // A v3-stamped frame parses as a feature frame at the header
        // level, but every point decoder must reject it cleanly rather
        // than misread feature bytes as point strides.
        let mut bytes = encode_cloud(&sample_cloud(2)).unwrap().to_vec();
        bytes[4] = 3;
        let info = frame_info(&bytes).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.kind, FrameKind::Features);
        assert_eq!(
            decode_cloud(&bytes).unwrap_err(),
            CodecError::PayloadKindMismatch { version: 3 }
        );
        assert_eq!(
            DeltaDecoder::new().decode_next(&bytes).unwrap_err(),
            CodecError::PayloadKindMismatch { version: 3 }
        );
    }

    #[test]
    fn version_four_still_unsupported() {
        let mut bytes = encode_cloud(&sample_cloud(2)).unwrap().to_vec();
        bytes[4] = 4;
        assert_eq!(
            frame_info(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(4)
        );
    }

    fn sample_features(cells: usize, channels: usize, seed: u32) -> FeatureFrame {
        // Deterministic pseudo-random features spanning positive,
        // negative and zero values.
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state as f32 / u32::MAX as f32) * 8.0 - 4.0
        };
        let cell_list: Vec<(i32, i32)> = (0..cells as i32).map(|i| (i % 41 - 20, i / 41)).collect();
        let mut cell_list = cell_list;
        cell_list.sort_unstable();
        cell_list.dedup();
        let features = (0..cell_list.len() * channels).map(|_| next()).collect();
        FeatureFrame::new(channels, cell_list, features)
    }

    #[test]
    fn feature_round_trip_within_quantization_bound() {
        // Property: for many frame shapes and value distributions, every
        // value survives the wire within scale/254 of its input.
        for (cells, channels, seed) in [(1, 1, 7), (40, 11, 1), (300, 5, 99), (17, 32, 3)] {
            let frame = sample_features(cells, channels, seed);
            let bytes = encode_features(&frame).unwrap();
            assert_eq!(bytes.len(), encoded_feature_size(frame.len(), channels));
            let decoded = decode_features(&bytes).unwrap();
            assert_eq!(decoded.cells(), frame.cells());
            assert_eq!(decoded.channels(), channels);
            let bound = frame.quantization_scale() / 254.0 + 1e-6;
            for (a, b) in frame.features().iter().zip(decoded.features()) {
                assert!((a - b).abs() <= bound, "{a} vs {b} exceeds {bound}");
            }
        }
    }

    #[test]
    fn feature_frame_info_reports_cell_count() {
        let frame = sample_features(25, 4, 11);
        let bytes = encode_features(&frame).unwrap();
        let info = frame_info(&bytes).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.kind, FrameKind::Features);
        assert!(!info.background_subtracted);
        assert_eq!(info.point_count, frame.len());
    }

    #[test]
    fn all_zero_feature_frame_round_trips_exactly() {
        let cells = vec![(-3, 1), (0, 0), (5, -2)];
        let mut cells = cells;
        cells.sort_unstable();
        let frame = FeatureFrame::new(2, cells, vec![0.0; 6]);
        assert_eq!(frame.quantization_scale(), 0.0);
        let decoded = decode_features(&encode_features(&frame).unwrap()).unwrap();
        assert!(decoded.features().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn non_finite_features_encode_as_zero() {
        let frame = FeatureFrame::new(3, vec![(0, 0)], vec![f32::NAN, f32::INFINITY, 2.0]);
        let decoded = decode_features(&encode_features(&frame).unwrap()).unwrap();
        assert_eq!(decoded.feature_at(0)[0], 0.0);
        assert_eq!(decoded.feature_at(0)[1], 0.0);
        assert!((decoded.feature_at(0)[2] - 2.0).abs() < 2.0 / 254.0 + 1e-6);
    }

    #[test]
    fn feature_truncation_keeps_whole_cells_and_their_values() {
        let frame = sample_features(30, 6, 5);
        let bytes = encode_features(&frame).unwrap();
        let stride = feature_cell_stride(6);
        // Cut mid-cell: 12 whole cells plus 3 bytes of the 13th.
        let cut = &bytes[..WIRE_FEATURE_HEADER_BYTES + 12 * stride + 3];
        let (salvaged, declared) = truncate_frame(cut).unwrap();
        assert_eq!(declared, frame.len());
        let prefix = decode_features(&salvaged).unwrap();
        assert_eq!(prefix.len(), 12);
        assert_eq!(prefix.cells(), &frame.cells()[..12]);
        // The sender's scale is kept: every kept value decodes exactly
        // as it does from the whole frame.
        let whole = decode_features(&bytes).unwrap();
        assert_eq!(prefix.features(), &whole.features()[..12 * 6]);
    }

    #[test]
    fn feature_decoder_rejects_point_frames_and_junk() {
        let points = encode_cloud(&sample_cloud(3)).unwrap();
        assert_eq!(
            decode_features(&points).unwrap_err(),
            CodecError::PayloadKindMismatch { version: 1 }
        );
        // A v3 header cut before the extended subheader is truncated.
        let frame = sample_features(4, 2, 1);
        let bytes = encode_features(&frame).unwrap();
        assert!(matches!(
            decode_features(&bytes[..WIRE_HEADER_BYTES + 2]).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        assert!(matches!(
            truncate_frame(&bytes[..WIRE_HEADER_BYTES + 2]).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        // Declared cells beyond the payload are truncated for the full
        // decoder, salvage for truncation.
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(
            decode_features(cut).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        let salvaged = truncate_frame(cut).unwrap().0;
        assert_eq!(decode_features(&salvaged).unwrap().len(), 3);
    }

    #[test]
    fn feature_cell_out_of_i16_range_rejected() {
        let frame = FeatureFrame::new(1, vec![(40_000, 0)], vec![1.0]);
        assert_eq!(
            encode_features(&frame).unwrap_err(),
            CodecError::CoordinateOutOfRange { index: 0 }
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn feature_frame_rejects_unsorted_cells() {
        let _ = FeatureFrame::new(1, vec![(1, 0), (0, 0)], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "feature frames are encoded with encode_features")]
    fn point_encoder_rejects_feature_kind() {
        let _ = encode_cloud_v2(&sample_cloud(1), FrameKind::Features, false);
    }

    /// Sends the next frame of `enc`'s stream as the fleet composes it:
    /// the whole cloud as a keyframe when the cadence calls for one, its
    /// novel points as a delta frame otherwise. Returns the frame kind,
    /// the points sent and the wire bytes.
    fn send_next(enc: &mut DeltaEncoder, cloud: &PointCloud) -> (FrameKind, usize, Bytes) {
        let (kind, sent) = if enc.keyframe_due() {
            enc.note_keyframe(cloud);
            (FrameKind::Keyframe, cloud.clone())
        } else {
            let novel = enc.novel_points(cloud);
            enc.note_delta();
            (FrameKind::Delta, novel)
        };
        let bytes = encode_cloud_v2(&sent, kind, false).unwrap();
        (kind, sent.len(), bytes)
    }

    #[test]
    fn delta_encoder_follows_cadence() {
        let mut enc = DeltaEncoder::new(VoxelGridConfig::voxelnet_car(), 3);
        let cloud = sample_cloud(50);
        let kinds: Vec<FrameKind> = (0..7).map(|_| send_next(&mut enc, &cloud).0).collect();
        use FrameKind::{Delta, Keyframe};
        assert_eq!(
            kinds,
            vec![Keyframe, Delta, Delta, Keyframe, Delta, Delta, Keyframe]
        );
    }

    #[test]
    fn delta_frames_carry_only_novel_voxels() {
        let mut enc = DeltaEncoder::new(VoxelGridConfig::voxelnet_car(), 4);
        let stat: PointCloud = (0..30)
            .map(|i| Point::new(Vec3::new(10.0 + (i % 5) as f64, 3.0, 0.5), 0.4))
            .collect();
        let (_, key_sent, key) = send_next(&mut enc, &stat);
        assert_eq!(key_sent, 30);

        // Same scene plus one new object: the delta sends only the object.
        let mut moved = stat.clone();
        moved.push(Point::new(Vec3::new(25.0, -4.0, 0.5), 0.9));
        let (kind, sent, delta) = send_next(&mut enc, &moved);
        assert_eq!(kind, FrameKind::Delta);
        assert_eq!(sent, 1);
        assert!((delta.len() as f64) < 0.2 * encoded_size(moved.len()) as f64);

        // The decoder reconstructs all 31 points.
        let mut dec = DeltaDecoder::new();
        dec.decode_next(&key).unwrap();
        assert_eq!(dec.decode_next(&delta).unwrap().len(), 31);
    }

    #[test]
    fn delta_decoder_degrades_without_keyframe() {
        let mut enc = DeltaEncoder::new(VoxelGridConfig::voxelnet_car(), 2);
        let cloud = sample_cloud(40);
        let _lost_keyframe = send_next(&mut enc, &cloud);
        let (_, sent, delta) = send_next(&mut enc, &cloud);
        let mut dec = DeltaDecoder::new();
        // No keyframe cached: the delta decodes to its own points only.
        let got = dec.decode_next(&delta).unwrap();
        assert_eq!(got.len(), sent);
        assert!(dec.keyframe().is_none());
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_framed_clouds_round_trip_all_versions() {
        let cloud = sample_cloud(20);
        for bytes in [
            encode_cloud(&cloud).unwrap(),
            encode_cloud_v2(&cloud, FrameKind::Delta, true).unwrap(),
        ] {
            let framed = append_crc(&bytes).unwrap();
            assert_eq!(framed.len(), bytes.len() + CRC_TRAILER_BYTES);
            let info = frame_info(&framed).unwrap();
            assert!(info.has_crc);
            assert_eq!(decode_cloud(&framed).unwrap().len(), 20);
            // The original header semantics survive the flag bit.
            assert_eq!(info.point_count, 20);
        }
        let frame = sample_features(12, 4, 2);
        let framed = append_crc(&encode_features(&frame).unwrap()).unwrap();
        assert!(frame_info(&framed).unwrap().has_crc);
        assert_eq!(decode_features(&framed).unwrap().cells(), frame.cells());
    }

    #[test]
    fn append_crc_is_idempotent() {
        let bytes = encode_cloud(&sample_cloud(5)).unwrap();
        let once = append_crc(&bytes).unwrap();
        let twice = append_crc(&once).unwrap();
        assert_eq!(&once[..], &twice[..]);
    }

    #[test]
    fn corrupted_crc_frame_rejected() {
        let framed = append_crc(&encode_cloud(&sample_cloud(8)).unwrap())
            .unwrap()
            .to_vec();
        for flip_at in [WIRE_HEADER_BYTES + 3, framed.len() - 1] {
            let mut bad = framed.clone();
            bad[flip_at] ^= 0x40;
            assert!(
                matches!(
                    decode_cloud(&bad).unwrap_err(),
                    CodecError::ChecksumMismatch { .. }
                ),
                "flip at {flip_at} must fail the CRC"
            );
        }
        // An unflagged frame with the same payload flip decodes fine —
        // the corruption is silent without the trailer.
        let mut silent = encode_cloud(&sample_cloud(8)).unwrap().to_vec();
        silent[WIRE_HEADER_BYTES + 3] ^= 0x40;
        assert!(decode_cloud(&silent).is_ok());
    }

    #[test]
    fn corrupted_feature_crc_rejected() {
        let frame = sample_features(10, 3, 7);
        let mut framed = append_crc(&encode_features(&frame).unwrap())
            .unwrap()
            .to_vec();
        framed[WIRE_FEATURE_HEADER_BYTES + 1] ^= 0x08;
        assert!(matches!(
            decode_features(&framed).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn crc_frame_with_missing_trailer_is_truncated() {
        let framed = append_crc(&encode_cloud(&sample_cloud(4)).unwrap()).unwrap();
        let cut = &framed[..framed.len() - 2];
        assert!(matches!(
            decode_cloud(cut).unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn crc_salvage_skips_unverifiable_cuts_and_checks_full_frames() {
        let plain = encode_cloud(&sample_cloud(10)).unwrap();
        let framed = append_crc(&plain).unwrap();
        // A genuine prefix has no trailer to verify: whole points
        // salvage, into a frame without the CRC flag.
        let cut = &framed[..WIRE_HEADER_BYTES + 6 * WIRE_BYTES_PER_POINT + 3];
        let (frame, declared) = truncate_frame(cut).unwrap();
        assert_eq!((frame_info(&frame).unwrap().point_count, declared), (6, 10));
        assert!(!frame_info(&frame).unwrap().has_crc);
        assert_eq!(decode_cloud(&frame).unwrap().len(), 6);
        // The complete frame verifies, and salvages to the frame before
        // framing — and a payload flip is caught even on the salvage
        // path.
        assert_eq!(truncate_frame(&framed).unwrap().0, plain);
        let mut bad = framed.to_vec();
        bad[WIRE_HEADER_BYTES] ^= 0x01;
        assert!(matches!(
            truncate_frame(&bad).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
        // Feature frames mirror the same contract.
        let fplain = encode_features(&sample_features(8, 2, 3)).unwrap();
        let f = append_crc(&fplain).unwrap();
        let stride = feature_cell_stride(2);
        let fcut = &f[..WIRE_FEATURE_HEADER_BYTES + 4 * stride + 1];
        let fframe = truncate_frame(fcut).unwrap().0;
        assert_eq!(decode_features(&fframe).unwrap().len(), 4);
        assert_eq!(truncate_frame(&f).unwrap().0, fplain);
        let mut fbad = f.to_vec();
        fbad[WIRE_FEATURE_HEADER_BYTES] ^= 0x10;
        assert!(matches!(
            truncate_frame(&fbad).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn append_crc_rejects_short_frames() {
        let bytes = encode_cloud(&sample_cloud(4)).unwrap();
        assert!(matches!(
            append_crc(&bytes[..bytes.len() - 1]).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        assert_eq!(append_crc(&[0u8; 3]).unwrap_err(), {
            CodecError::Truncated {
                expected: WIRE_HEADER_BYTES,
                actual: 3,
            }
        });
    }

    #[test]
    fn delta_encoder_points_outside_grid_always_sent() {
        let mut enc = DeltaEncoder::new(VoxelGridConfig::voxelnet_car(), 2);
        // voxelnet_car's extent does not reach x = −60.
        let outside: PointCloud =
            std::iter::once(Point::new(Vec3::new(-60.0, 0.0, 0.0), 0.5)).collect();
        send_next(&mut enc, &outside);
        let (kind, sent, _) = send_next(&mut enc, &outside);
        assert_eq!(kind, FrameKind::Delta);
        assert_eq!(sent, 1);
    }
}
