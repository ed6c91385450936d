//! The bandwidth-governor policy interface.
//!
//! §IV-G of the paper shrinks exchanged frames to "what the receiver
//! actually needs" — an ROI wedge, background removed — so cooperative
//! perception fits the DSRC channel instead of hoping it does. The
//! fleet loop closes that loop per directed transfer: it assembles a
//! [`TransferOffer`] describing every way the sender's scan could be
//! encoded (ROI category × frame kind, each with its wire size and air
//! time) together with the receiver's demand (its blind sectors) and
//! the channel's remaining air-time budget, then asks a
//! [`GovernorPolicy`] which encoding to send — or whether to skip the
//! transfer entirely rather than blow the exchange deadline.
//!
//! The menu spans **four tiers** of degradation, cheapest content last:
//! raw keyframes, raw deltas (background subtracted, keyed to the last
//! keyframe), ROI-clipped variants of either, and — with
//! [`GovernorConfig::features`] — quantized BEV **feature frames**
//! (wire-format v3, the F-Cooper exchange level), where the sender runs
//! the SPOD front half and ships per-cell features instead of points.
//!
//! The policy lives behind a trait because the reference
//! implementation (`cooper_v2x::BandwidthGovernor`) belongs with the
//! channel models in `cooper-v2x`, which depends on this crate — the
//! fleet can only name the contract, not the implementation.

use cooper_pointcloud::roi::{BlindSector, RoiCategory};
use cooper_pointcloud::{FrameKind, VoxelGridConfig};

/// One way a transfer's payload could be encoded: an ROI category and
/// frame kind, priced in wire bytes and (when the channel accounts air
/// time) seconds on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCandidate {
    /// ROI category applied to the sender's content.
    pub roi: RoiCategory,
    /// Encoding of that content: raw keyframe, raw delta, or a
    /// quantized BEV feature frame (the v3 feature-exchange tier).
    pub kind: FrameKind,
    /// Total wire size of the resulting exchange packet, bytes.
    pub wire_bytes: usize,
    /// Air time the packet would occupy, seconds; `None` when the
    /// channel model does not account air time.
    pub airtime_s: Option<f64>,
}

/// Everything a governor may consult about one directed transfer.
#[derive(Debug, Clone, Copy)]
pub struct TransferOffer<'a> {
    /// Simulation step of the transfer.
    pub step: usize,
    /// Transmitting vehicle's id.
    pub from: u32,
    /// Receiving vehicle's id.
    pub to: u32,
    /// `true` when the sender's keyframe cadence fell due this step
    /// (delta candidates reference an older keyframe than usual).
    pub keyframe_due: bool,
    /// Blocked sectors of the *receiver's* own view this step — its
    /// demand for cooperative content, in its own sensor frame.
    pub receiver_blind_sectors: &'a [BlindSector],
    /// The encodings on offer, every available (ROI, kind) pair.
    pub candidates: &'a [TransferCandidate],
    /// Air time left in the channel's current window, seconds; `None`
    /// when the channel model keeps no window accounting.
    pub headroom_s: Option<f64>,
}

impl TransferOffer<'_> {
    /// The candidate with the given ROI and kind, if offered.
    pub fn candidate(&self, roi: RoiCategory, kind: FrameKind) -> Option<TransferCandidate> {
        self.candidates
            .iter()
            .copied()
            .find(|c| c.roi == roi && c.kind == kind)
    }
}

/// A governor's decision about one directed transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorVerdict {
    /// Send the payload encoded as this candidate describes.
    Send(TransferCandidate),
    /// Send nothing: no candidate fits the budget. The fleet records
    /// this as a [`crate::fleet::TransportDropReason::BudgetExceeded`].
    Skip,
}

/// Decides, per directed transfer, what subset of the sender's scan to
/// send and how to encode it — or to skip the transfer.
///
/// Implementations must be deterministic functions of the offer (plus
/// their own configuration): the fleet consults the governor serially
/// in delivery order, and the reports are bit-identical at any thread
/// count only if the governor is too.
pub trait GovernorPolicy {
    /// Picks a candidate (or skips) for the offered transfer.
    fn decide(&mut self, offer: &TransferOffer<'_>) -> GovernorVerdict;
}

/// The ungoverned baseline: always sends the first offered candidate
/// (the fleet offers the widest ROI at the cadence kind first).
#[derive(Debug, Clone, Copy, Default)]
pub struct SendFirstPolicy;

impl GovernorPolicy for SendFirstPolicy {
    fn decide(&mut self, offer: &TransferOffer<'_>) -> GovernorVerdict {
        match offer.candidates.first() {
            Some(c) => GovernorVerdict::Send(*c),
            None => GovernorVerdict::Skip,
        }
    }
}

/// Azimuth bins a receiver's scan is split into for blind-sector
/// detection ([`cooper_pointcloud::roi::blind_sectors`]).
pub const BLIND_BINS: usize = 360;

/// A bin is blocked when its nearest above-ground return is closer than
/// this, metres.
pub const OCCLUDER_RANGE_M: f64 = 15.0;

/// Minimum angular width of a reported blind sector, radians (10°).
pub const MIN_SECTOR_WIDTH_RAD: f64 = 10f64.to_radians();

/// Returns below this sensor-frame height are ground, not occluders,
/// metres.
pub const GROUND_Z_BELOW_M: f64 = -1.0;

/// Configuration of the governed exchange path
/// ([`crate::fleet::FleetSimulation::run_governed`]): the sender-side
/// codec state every vehicle maintains and the tiers on offer. The
/// receivers' demand comes from the blind sectors of their scans, found
/// with this module's constants.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Enable wire-format v2 delta encoding (background subtraction via
    /// a per-vehicle `StaticMap` plus keyframe/delta cadence). When
    /// `false` every frame is a keyframe of the raw scan.
    pub delta_encode: bool,
    /// Keyframe cadence: every `keyframe_every`-th frame is a keyframe
    /// (1 = all keyframes). Ignored unless `delta_encode`.
    pub keyframe_every: u32,
    /// Voxel grid keying both the static map and the delta reference.
    pub grid: VoxelGridConfig,
    /// Offer the feature-exchange tier: senders run the SPOD front half
    /// over their own scan and the candidate menu gains wire-format v3
    /// quantized BEV feature frames per ROI (F-Cooper), priced by their
    /// real encoded size. Policies that never pick a
    /// [`FrameKind::Features`] candidate behave exactly as before.
    pub features: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            delta_encode: true,
            keyframe_every: 5,
            grid: VoxelGridConfig::voxelnet_car(),
            features: false,
        }
    }
}

impl GovernorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.keyframe_every == 0 {
            return Err("keyframe_every must be positive".to_string());
        }
        self.grid.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer_with(candidates: &[TransferCandidate]) -> TransferOffer<'_> {
        TransferOffer {
            step: 0,
            from: 1,
            to: 2,
            keyframe_due: true,
            receiver_blind_sectors: &[],
            candidates,
            headroom_s: None,
        }
    }

    #[test]
    fn send_first_policy_takes_first_candidate() {
        let candidates = [
            TransferCandidate {
                roi: RoiCategory::FullFrame,
                kind: FrameKind::Keyframe,
                wire_bytes: 1000,
                airtime_s: None,
            },
            TransferCandidate {
                roi: RoiCategory::ForwardOneWay,
                kind: FrameKind::Keyframe,
                wire_bytes: 100,
                airtime_s: None,
            },
        ];
        let mut policy = SendFirstPolicy;
        match policy.decide(&offer_with(&candidates)) {
            GovernorVerdict::Send(c) => assert_eq!(c.wire_bytes, 1000),
            GovernorVerdict::Skip => panic!("expected a send"),
        }
        assert_eq!(policy.decide(&offer_with(&[])), GovernorVerdict::Skip);
    }

    #[test]
    fn offer_candidate_lookup() {
        let candidates = [TransferCandidate {
            roi: RoiCategory::FrontFov120,
            kind: FrameKind::Delta,
            wire_bytes: 64,
            airtime_s: Some(0.001),
        }];
        let offer = offer_with(&candidates);
        assert!(offer
            .candidate(RoiCategory::FrontFov120, FrameKind::Delta)
            .is_some());
        assert!(offer
            .candidate(RoiCategory::FullFrame, FrameKind::Delta)
            .is_none());
    }

    #[test]
    fn config_validation() {
        assert!(GovernorConfig::default().validate().is_ok());
        let bad = GovernorConfig {
            keyframe_every: 0,
            ..GovernorConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
